//! Nanosecond latency histogram with logarithmic buckets.
//!
//! 128 sub-buckets per power of two, so a bucket is at most 1/128 =
//! 0.78 % of its lower edge wide; values below 128 ns are exact.
//! Percentiles interpolate inside the bucket by rank, so two runs that
//! land in the same bucket still read differently.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower edge and width of bucket `idx`.
fn bucket(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1u64 << shift)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    /// The value below which a share `q` of the samples fall.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).max(1.0);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= target {
                let (low, width) = bucket(idx);
                let frac = (target - before as f64) / c as f64;
                return (low as f64 + frac * width as f64).min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }

    /// Mean of the samples between quantiles `lo` and `hi`, a bucket cut
    /// by either taken in proportion. Between 0.25 and 0.75 it is the
    /// interquartile mean: where the samples fall into two groups with
    /// the median in the gap between them, the median jumps from one
    /// group to the other and this moves smoothly.
    pub fn mean_between(&self, lo: f64, hi: f64) -> f64 {
        let (from, to) = (lo * self.total as f64, hi * self.total as f64);
        let (mut before, mut sum, mut taken) = (0.0, 0.0, 0.0);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let after = before + c as f64;
            let (first, last) = (before.max(from), after.min(to));
            if last > first {
                // Samples lie evenly over their bucket, so the mean of
                // the part taken is the middle of that part.
                let (low, width) = bucket(idx);
                let middle = ((first + last) / 2.0 - before) / c as f64;
                sum += (last - first) * (low as f64 + middle * width as f64).min(self.max as f64);
                taken += last - first;
            }
            before = after;
            if before >= to {
                break;
            }
        }
        if taken > 0.0 {
            sum / taken
        } else {
            0.0
        }
    }

    /// `q`, lowered if needed to the highest quantile that still has at
    /// least ten samples beyond it (a p99 of 300 samples is the third
    /// largest value, not a percentile).
    pub fn supported(&self, q: f64) -> f64 {
        if self.total <= 20 {
            return q.min(0.5);
        }
        q.min(1.0 - 10.0 / self.total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_low = 0u64;
        for idx in 0..BUCKETS - SUB {
            let (low, width) = bucket(idx);
            assert_eq!(low, expect_low, "bucket {idx}");
            assert_eq!(index_of(low), idx);
            assert_eq!(index_of(low + width - 1), idx);
            expect_low = low + width;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_error_stays_under_one_percent() {
        // Log-uniform latencies from 100 ns to 10 ms, checked against
        // the exact order statistics.
        let mut rng = Rng::new(5);
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| (100.0 * (1e5f64).powf(rng.next_f64())) as u64)
            .collect();
        let mut h = Histogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[((q * exact.len() as f64) as usize).min(exact.len() - 1)] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.01,
                "q={q}: got {got}, exact {want}"
            );
        }
        assert_eq!(h.count(), 200_000);
        assert_eq!(h.max(), *exact.last().unwrap());
    }

    #[test]
    fn mean_between_is_the_mean_of_that_part_of_the_order_statistics() {
        let mut rng = Rng::new(9);
        let mut exact: Vec<u64> = (0..100_000)
            .map(|_| (100.0 * (1e4f64).powf(rng.next_f64())) as u64)
            .collect();
        let mut h = Histogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        let middle = &exact[25_000..75_000];
        let want = middle.iter().sum::<u64>() as f64 / middle.len() as f64;
        let got = h.mean_between(0.25, 0.75);
        assert!((got - want).abs() / want < 0.01, "got {got}, exact {want}");
        // Two groups, 45 % and 55 %, with the median in the gap: the
        // interquartile mean lies between them, weighted by their shares.
        let mut two = Histogram::new();
        for i in 0..1_000 {
            two.record(if i < 450 { 100 } else { 120 });
        }
        let want = (200.0 * 100.0 + 300.0 * 120.0) / 500.0;
        assert!((two.mean_between(0.25, 0.75) - want).abs() < 1.0);
        assert_eq!(Histogram::new().mean_between(0.25, 0.75), 0.0);
    }

    #[test]
    fn small_values_are_exact_and_clear_empties() {
        let mut a = Histogram::new();
        for v in 1..=200 {
            a.record(v);
        }
        assert_eq!(a.count(), 200);
        assert!((a.quantile(0.5) - 100.0).abs() <= 1.0);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0.0);
    }

    #[test]
    fn short_runs_lower_the_tail_percentile() {
        let mut h = Histogram::new();
        for v in 0..300 {
            h.record(v);
        }
        let q = h.supported(0.99);
        assert!((q - (1.0 - 10.0 / 300.0)).abs() < 1e-12);
        for v in 0..100_000 {
            h.record(v);
        }
        assert_eq!(h.supported(0.99), 0.99);
    }
}
