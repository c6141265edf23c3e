//! Exact order statistics over every sample — no bucketed histogram, so a
//! percentile printed by the harness is a value that was measured.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it
/// (rank `ceil(p/100 * n)`, 1-based). `None` for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// A sample set sorted once, queried many times.
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn new(mut samples: Vec<u64>) -> Sorted {
        samples.sort_unstable();
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, 0 when there are no samples (a layer the
    /// workload never exercised).
    pub fn p(&self, p: f64) -> u64 {
        percentile_sorted(&self.0, p).unwrap_or(0)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.0)
    }
}

/// Median of a float sample (mean of the two middle values when even).
/// Used for "median pass" and for summarising repeated runs.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so `perfladder compare`
/// prints the same spread the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_arrays() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99));
        assert_eq!(percentile_sorted(&v, 99.9), Some(100));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        // The textbook example: 15, 20, 35, 40, 50.
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&v, 5.0), Some(15));
        assert_eq!(percentile_sorted(&v, 30.0), Some(20));
        assert_eq!(percentile_sorted(&v, 40.0), Some(20));
        assert_eq!(percentile_sorted(&v, 50.0), Some(35));
        assert_eq!(percentile_sorted(&v, 100.0), Some(50));
        assert_eq!(percentile_sorted(&[7], 99.0), Some(7));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn sorted_wrapper_sorts_and_never_interpolates() {
        let s = Sorted::new(vec![9, 1, 5, 3]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.p(50.0), 3);
        assert_eq!(s.p(75.0), 5);
        assert_eq!(s.p(76.0), 9);
        assert!((s.mean() - 4.5).abs() < 1e-12);
        assert_eq!(Sorted::new(Vec::new()).p(99.0), 0);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
    }
}
