//! Order statistics used to summarise passes and runs.

/// Sorts ascending. Measurements are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurement is not NaN"));
    v
}

/// Median of `values`; the mean of the two middle ones for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of nothing");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a run reports for a cost measured over `P` passes: sorted
/// ascending, index `⌊(P−1)/4⌋`. Interference from neighbours only ever
/// adds time, so the low quartile is closer to the program's own cost than
/// the median, and one lucky pass cannot set it once `P ≥ 5`.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "lower quartile of nothing");
    v[(v.len() - 1) / 4]
}

/// Nearest-rank percentile, `p` in `0..=100`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `compare` computes the spread the way the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lower_quartile_index_is_floor_p_minus_1_over_4() {
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&ten), 3.0); // index 2
        assert_eq!(lower_quartile(&ten[..8]), 4.0); // 3..=10, index 1
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[9.0, 5.0, 7.0, 6.0, 8.0]), 6.0); // index 1
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
    }
}
