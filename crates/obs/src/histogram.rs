//! Streaming log-bucketed latency histogram.
//!
//! HDR-style layout: values below 16 get exact buckets; above that, each
//! power-of-two range is split into 16 sub-buckets, bounding the relative
//! quantile error at 1/16 (~6%) with fixed memory (one `u64` per bucket,
//! no allocation after construction). Values of 2^48 and above clamp
//! into a final overflow bucket; the exact maximum is tracked
//! separately so `max()` is always precise.

/// Majors 4..=47 get 16 sub-buckets each; majors 0..4 are the 16 exact
/// low buckets. 2^48 ns is ~3.3 days — far beyond any phase latency.
const MAX_MAJOR: u32 = 47;
const BUCKETS: usize = ((MAX_MAJOR as usize - 3) * 16) + 16;

/// Fixed-memory streaming histogram over `u64` samples (nanoseconds, by
/// convention, but any magnitude works).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let major = 63 - v.leading_zeros(); // floor(log2 v), >= 4 here
    if major > MAX_MAJOR {
        return BUCKETS - 1; // overflow bucket
    }
    let sub = ((v >> (major - 4)) & 0xF) as usize;
    ((major as usize - 3) * 16) + sub
}

/// Lower bound of a bucket; used as the reported quantile value.
fn bucket_lower_bound(index: usize) -> u64 {
    if index < 16 {
        return index as u64;
    }
    let major = (index / 16) + 3;
    let sub = (index % 16) as u64;
    (16 + sub) << (major - 4)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact running mean (not bucket-quantized).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum as f64) / (self.count as f64)
        }
    }

    pub(crate) fn total(&self) -> u128 {
        self.sum
    }

    /// Exact minimum, 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (tracked outside the buckets), 0 when empty.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in [0, 1], quantized to its bucket's lower
    /// bound — except q=1.0 and single-bucket tails, which report the
    /// exact max. Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * (self.count as f64)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's lower bound would under-report the
                // tail; the exact max is a better (and exact) answer.
                if seen == self.count && rank > self.count - c {
                    return self.max.max(bucket_lower_bound(i));
                }
                return bucket_lower_bound(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest value that lands in a regular bucket (inclusive).
    const MAX_TRACKABLE: u64 = (1 << (MAX_MAJOR + 1)) - 1;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn single_value_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(12_345);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
        assert_eq!(h.mean(), 12_345.0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn low_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        // rank 8 of 16 -> value 7 (exact buckets below 16)
        assert_eq!(h.p50(), 7);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1_000); // 1µs..10ms spread
        }
        for (q, exact) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.0725, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn overflow_bucket_clamps_but_max_is_exact() {
        let mut h = Histogram::new();
        h.record(MAX_TRACKABLE);
        h.record(MAX_TRACKABLE + 1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // The whole tail sits in the final buckets; q=1.0 reports the
        // exact max rather than a quantized lower bound.
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.p50() >= bucket_lower_bound(BUCKETS - 2));
    }

    #[test]
    fn bucket_round_trip_bounds() {
        // Every bucket's lower bound must map back to that bucket.
        for i in 0..BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "bucket {i}, lower bound {lb}");
        }
        // Index must be monotone in the value.
        let mut prev = 0;
        for shift in 0..63 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
        }
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..1000u64 {
            let v = i * 7 + 3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.p50(), both.p50());
        assert_eq!(a.p99(), both.p99());
        assert_eq!(a.total(), both.total());
    }
}
