//! Metrics registry value types: counters, gauges, and log2-bucket
//! histograms, all keyed by name in deterministic (BTreeMap) order.

use std::collections::BTreeMap;

/// Number of histogram buckets; bucket `i` covers `[2^(i-1), 2^i)` with
/// bucket 0 reserved for exact zeros. 2^39 ns ≈ 9 minutes, ample for any
/// latency this code measures.
pub(crate) const HIST_BUCKETS: usize = 40;

/// Fixed-size log2-bucket histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = (Self::bucket_of(value)).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Bucket index a value falls into (0 for 0, else `floor(log2(v)) + 1`).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower edge of bucket `i`.
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Add all of `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Histogram of the observations in `self` but not in the earlier
    /// snapshot `prev` (for per-step deltas of a cumulative histogram).
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(prev.buckets[i]);
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        out
    }

    /// Non-empty buckets as `(lower_edge, count)` pairs, ascending.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }
}

/// Point-in-time copy of a rank's metrics registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (e.g. bytes sent).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges (e.g. MLUP/s of the latest sweep).
    pub gauges: BTreeMap<String, f64>,
    /// Log2-bucket histograms (e.g. recv-wait nanoseconds).
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_reserved() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(11), 1024);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = Histogram::default();
        for v in [0u64, 1, 7, 4096] {
            a.record(v);
        }
        let before = a.clone();
        let mut b = Histogram::default();
        for v in [3u64, 1 << 20] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.delta_since(&before), b);
        assert_eq!(b.nonzero_buckets(), vec![(2, 1), (1 << 20, 1)]);
    }
}
