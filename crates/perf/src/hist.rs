//! Fixed-size log-linear latency histogram with interpolated quantiles.
//!
//! The benchmark owns its histogram (rather than borrowing `loadgen`'s) so
//! that no later change to a harness can shift the measurement. Memory is
//! constant in the sample count, so `peak_rss_mib` does not grow with how
//! many ops a faster build completes in the window.

/// Linear sub-buckets per power-of-two octave: 128, i.e. every bucket is at
/// most 0.8 % wide.
const SUB_BITS: u32 = 7;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Largest octave tracked: 2^40 ns is about 18 minutes, far beyond any op.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) << SUB_BITS) as usize;

/// Histogram of nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    let sub = ((v >> (exp - SUB_BITS)) - SUB_COUNT).min(SUB_COUNT - 1);
    ((((exp - SUB_BITS + 1) as u64) << SUB_BITS) + sub) as usize
}

/// Smallest value of a bucket and the bucket's width.
fn bucket_range(bucket: usize) -> (u64, u64) {
    let bucket = bucket as u64;
    if bucket < SUB_COUNT {
        return (bucket, 1);
    }
    let shift = (bucket >> SUB_BITS) - 1;
    let sub = (bucket & (SUB_COUNT - 1)) + SUB_COUNT;
    (sub << shift, 1 << shift)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.count += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside the
    /// bucket that holds it so that two runs whose samples share a bucket
    /// still report the values they measured, not the bucket's edge.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            let n = n as u64;
            if n > 0 && rank < (before + n) as f64 {
                let (lo, width) = bucket_range(bucket);
                let within = (rank - before as f64 + 0.5) / n as f64;
                return lo as f64 + width as f64 * within;
            }
            before += n;
        }
        let (lo, width) = bucket_range(BUCKETS - 1);
        (lo + width) as f64
    }
}

/// Median of a slice (0 for an empty one); sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        let mut prev_end = 0u64;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, prev_end, "bucket {b} starts where the last one ended");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + width - 1), b);
            prev_end = lo + width;
        }
        // Values past the tracked range clamp into the last bucket.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.01, "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
