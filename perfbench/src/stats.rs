//! Order statistics for the report: median and quartiles over reps, and
//! the tail percentile a sample set can support.

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`, so
/// the spreads printed here match the ones computed from the JSON lines.
/// One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let at = |q: usize| {
        // Position (n + 1) * q / 4, 1-based; the interval is clamped to
        // the sample and the position extrapolated from it, as Python does.
        let m = (n + 1) * q;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0
    };
    (at(1), median(&v), at(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Candidate tail percentiles, highest first. The report names p99 as its
/// tail, so nothing above it is a candidate.
const TAILS: [u64; 5] = [99, 95, 90, 75, 50];

/// The highest percentile (at most p99) that leaves at least ten of `n`
/// samples beyond it: p99 needs n >= 1000. `None` when even the median
/// has fewer than ten samples above it.
pub fn tail_percent(n: usize) -> Option<u64> {
    TAILS.into_iter().find(|&p| n as u64 * (100 - p) / 100 >= 10)
}

/// Nearest-rank `percent`-th percentile of `values`.
pub fn percentile(values: &[f64], percent: u64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as u64 * percent).div_ceil(100).max(1) as usize;
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percent(100_000), Some(99));
        assert_eq!(tail_percent(1000), Some(99));
        assert_eq!(tail_percent(999), Some(95));
        assert_eq!(tail_percent(200), Some(95));
        assert_eq!(tail_percent(100), Some(90));
        assert_eq!(tail_percent(40), Some(75));
        assert_eq!(tail_percent(20), Some(50));
        assert_eq!(tail_percent(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&[2.0, 1.0], 50), 1.0);
    }
}
