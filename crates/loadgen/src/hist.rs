//! Log-bucketed latency histogram.
//!
//! An HDR-style layout: each power-of-two octave is split into
//! `1 << SUB_BITS` linear sub-buckets, giving a bounded relative error of
//! `2^-SUB_BITS` (~3%) at every magnitude from nanoseconds to hours while
//! keeping the table small enough to merge per-thread copies cheaply.
//! Recording and quantile extraction are pure integer arithmetic, so a
//! histogram over the same multiset of samples always reports the same
//! quantiles — the property the deterministic latency fingerprint relies on.

use serde::Serialize;

/// Sub-bucket resolution: 32 linear buckets per octave.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Octaves above the linear range (values are u64 nanoseconds).
const BUCKETS: usize = ((64 - SUB_BITS + 1) << SUB_BITS) as usize;

/// Fixed-size histogram of nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS as u64)) - SUB_COUNT;
    (((exp - SUB_BITS as u64 + 1) << SUB_BITS) + sub) as usize
}

/// Upper bound of a bucket: the largest value that maps into it. Quantiles
/// report this bound, so they never understate a latency.
fn bucket_upper(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_COUNT {
        return bucket;
    }
    let exp = (bucket >> SUB_BITS) - 1 + SUB_BITS as u64;
    let sub = (bucket & (SUB_COUNT - 1)) + SUB_COUNT;
    let upper = ((sub as u128 + 1) << (exp - SUB_BITS as u64)) - 1;
    upper.min(u64::MAX as u128) as u64
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest sample (clamped to the
    /// observed max). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Summary of the distribution.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_nanos: self.sum.checked_div(self.count).unwrap_or(0),
            min_nanos: if self.count == 0 { 0 } else { self.min },
            max_nanos: self.max,
            p50_nanos: self.quantile(0.50),
            p95_nanos: self.quantile(0.95),
            p99_nanos: self.quantile(0.99),
        }
    }
}

/// Serializable digest of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_nanos: u64,
    pub min_nanos: u64,
    pub max_nanos: u64,
    pub p50_nanos: u64,
    pub p95_nanos: u64,
    pub p99_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= last, "bucket order violated at {v}");
            last = b;
            // The bucket's upper bound never understates the value by more
            // than the sub-bucket width.
            assert!(bucket_upper(b) >= v, "upper({b}) = {} < {v}", bucket_upper(b));
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        assert!((4_900_000..=5_300_000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((9_800_000..=10_300_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), h.summary().max_nanos);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [5u64, 77, 4_096, 1_000_000, 123_456_789] {
            a.record(v);
            all.record(v);
        }
        for v in [9u64, 88, 8_192, 7_777_777] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = LatencyHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_nanos, 0);
        assert_eq!(s.min_nanos, 0);
    }
}
