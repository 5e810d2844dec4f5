//! A small deterministic pseudo-random generator.
//!
//! Experiments must be bit-for-bit reproducible across runs and platforms,
//! so we use a self-contained splitmix64/xoshiro-style generator rather than
//! an OS-seeded source. This is not a cryptographic generator.

/// Deterministic 64-bit PRNG (splitmix64 core).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        // splitmix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiplicative range reduction; bias is negligible for our n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Returns an exponentially distributed float with the given mean.
    ///
    /// Used for Poisson arrivals and exponential service times (the A3
    /// queueing model, the open-loop load schedule).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let mut u = self.next_f64();
        if u == 0.0 {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives an independent generator, e.g. one per simulated host.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn exp_mean_approximately_correct() {
        let mut r = DetRng::new(11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean was {mean}");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = DetRng::new(5);
        let mut child = a.fork();
        // The child stream must not simply replay the parent stream.
        let parent_next = a.next_u64();
        let child_next = child.next_u64();
        assert_ne!(parent_next, child_next);
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn below_zero_panics() {
        DetRng::new(0).next_below(0);
    }
}
