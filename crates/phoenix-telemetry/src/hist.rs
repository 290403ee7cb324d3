//! Log-bucketed latency histogram.
//!
//! 64 power-of-two buckets cover the full `u64` nanosecond range: value
//! `v` lands in bucket `64 - v.leading_zeros()` (bucket 0 holds only
//! zero). Alongside the buckets we keep exact count/sum/min/max, so
//! merging shards is pure addition and a merged histogram reports exactly
//! the same summary as one fed the union of observations — the property
//! the shard-merge test pins.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub(crate) const BUCKETS: usize = 65;

#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Point-in-time digest of a histogram, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (inclusive representative) of a bucket: the largest value
/// that maps into it. Used as the percentile estimate.
fn bucket_ceiling(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one observation (nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram into this one. Bucket-wise addition plus
    /// min/max/sum merge: the result is indistinguishable from a single
    /// histogram that saw every observation.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate the value at quantile `q` in `[0, 1]`: the ceiling of the
    /// bucket containing the `ceil(q * count)`-th observation, clamped to
    /// the exact observed max (so p100 == max and a one-bucket histogram
    /// reports its true extreme).
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceiling(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            sum_ns: self.sum,
            min_ns: if self.count == 0 { 0 } else { self.min },
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_ceiling(2), 3);
        assert_eq!(bucket_ceiling(64), u64::MAX);
    }

    #[test]
    fn summary_of_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_ns, 5050 * 1000);
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.max_ns, 100_000);
        // Log buckets: estimates are bucket ceilings, so only assert
        // ordering and range.
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert!(s.p50_ns >= 1000);
    }

    #[test]
    fn merge_of_shards_equals_whole() {
        let vals: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { a.record(v) } else { b.record(v) }
        }
        a.merge(&b);
        assert_eq!(a.summary(), whole.summary());
        assert_eq!(a.buckets, whole.buckets);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.max_ns, 0);
    }
}
