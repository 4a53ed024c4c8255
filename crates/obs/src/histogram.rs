//! Fixed log-bucket histogram: allocation-free recording, coarse quantiles.

/// Number of power-of-two buckets a [`Histogram`] holds. Bucket `0` counts
/// values `<= 1`; bucket `i` counts values in `(2^(i-1), 2^i]`. With 64
/// buckets the histogram spans 19 decades — enough for nanoseconds through
/// hours when recording microseconds.
pub const NUM_BUCKETS: usize = 64;

/// A histogram over non-negative values with power-of-two buckets.
///
/// Recording is allocation-free: one branchless bucket-index computation
/// (integer bit math, no `log`), two float adds and two compares. Exact
/// `count`/`sum`/`min`/`max` are kept alongside the buckets, so means are
/// exact and only the quantiles are bucket-resolution estimates (within 2x,
/// reported at the bucket's upper bound and clamped to the observed range).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

/// Index of the bucket covering `v` (values `<= 1` land in bucket 0).
fn bucket_of(v: f64) -> usize {
    if v <= 1.0 {
        return 0;
    }
    // ceil(log2(n)) for n >= 2 via leading zeros; `as u64` saturates huge
    // floats to u64::MAX, which lands in the last bucket as intended.
    let n = v.ceil() as u64;
    let idx = 64 - (n - 1).leading_zeros() as usize;
    idx.min(NUM_BUCKETS - 1)
}

impl Histogram {
    /// Records one value. Negative or non-finite values are ignored — they can
    /// only come from a broken clock and must not poison the buckets.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`, clamped to the
    /// observed `[min, max]` range. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let upper = (1u64 << i) as f64;
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// A self-contained copy for sinks and assertions.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| ((1u64 << i) as f64, c))
                .collect(),
        }
    }
}

/// Detached summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Median estimate (bucket resolution).
    pub p50: f64,
    /// 90th-percentile estimate (bucket resolution).
    pub p90: f64,
    /// 99th-percentile estimate (bucket resolution).
    pub p99: f64,
    /// Non-empty `(upper_bound, count)` buckets in increasing order.
    pub buckets: Vec<(f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.5), 0);
        assert_eq!(bucket_of(1.0), 0);
        assert_eq!(bucket_of(1.5), 1);
        assert_eq!(bucket_of(2.0), 1);
        assert_eq!(bucket_of(2.1), 2);
        assert_eq!(bucket_of(4.0), 2);
        assert_eq!(bucket_of(1024.0), 10);
        assert_eq!(bucket_of(1e300), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_moments_and_range() {
        let mut h = Histogram::default();
        for v in [3.0, 5.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 108.0);
        assert_eq!(h.mean(), 36.0);
        assert_eq!(h.min(), 3.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn quantiles_are_bucket_bounded() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        // p50 of 1..=1000 is ~500; the covering bucket's upper bound is 512.
        assert_eq!(h.quantile(0.5), 512.0);
        // Quantiles never leave the observed range.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn empty_and_garbage_inputs() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0, "garbage must be ignored");
    }

    #[test]
    fn snapshot_reports_nonzero_buckets() {
        let mut h = Histogram::default();
        h.record(3.0);
        h.record(3.5);
        h.record(100.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets, vec![(4.0, 2), (128.0, 1)]);
    }
}
