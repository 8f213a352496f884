//! Order statistics shared by the timed runs, the traced run and
//! `compare`.

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed
/// here matches one computed from the same values there.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread every bound is judged against.
pub fn spread(v: &[f64]) -> f64 {
    let q = quartiles(v);
    let med = median(v);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]).abs() / med.abs()
    }
}

/// The percentiles a latency report may print, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it among `count` samples, or `None` when even the median does
/// not (fewer than 20 samples).
pub fn highest_supported_percentile(count: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`
/// (starting with a letter or digit, at most 64 characters).
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "latency_p50_ms", "wire.frame_bytes", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
