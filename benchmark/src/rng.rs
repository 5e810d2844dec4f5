//! The generator's own randomness: everything a workload feeds the
//! stack is drawn here from `--seed`, so the stack receives only the
//! generated inputs and a refactor of `simnet::rng` cannot change what
//! the benchmark asks.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one named purpose (`"ops"`,
    /// `"arrivals"`, ...), so adding a draw to one stream never shifts
    /// another.
    pub fn fork(&self, purpose: &str) -> Rng {
        let mut h = self.0 ^ 0x6a09_e667_f3bc_c908;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Inverse-CDF Zipf sampler: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`: offsets from
/// the phase start, ascending, in nanoseconds.
pub fn poisson_schedule(rate_per_s: f64, duration_ns: u64, rng: &mut Rng) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - u is in (0, 1], so the log is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7).fork("ops");
            (0..50).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7).fork("ops");
            (0..50).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7).fork("arrivals");
            (0..50).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_universe() {
        let z = Zipf::new(3072, 1.0);
        let mut rng = Rng::new(1987);
        let mut counts = vec![0u32; 3072];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99] && counts[99] > counts[999]);
        // Rank 0 carries 1/H_3072 = 11.6% of the mass.
        let share0 = f64::from(counts[0]) / 200_000.0;
        assert!((share0 - 0.116).abs() < 0.01, "{share0}");
        assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), 200_000);
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(10_000, &mut Rng::new(3));
        let mut seen = vec![false; 10_000];
        for &i in &p {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
        }
        assert_eq!(p, permutation(10_000, &mut Rng::new(3)));
        assert_ne!(p, permutation(10_000, &mut Rng::new(4)));
        assert!(p.iter().enumerate().any(|(i, &v)| i as u32 != v));
    }

    #[test]
    fn poisson_schedule_tracks_rate_and_is_deterministic() {
        let dur = 2_000_000_000; // 2 s
        let s = poisson_schedule(50_000.0, dur, &mut Rng::new(11));
        // lambda*T = 100k, sigma = 316: allow 5 sigma.
        assert!((s.len() as i64 - 100_000).abs() < 1_600, "{}", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < dur);
        assert_eq!(s, poisson_schedule(50_000.0, dur, &mut Rng::new(11)));
        assert_ne!(s, poisson_schedule(50_000.0, dur, &mut Rng::new(12)));
    }
}
