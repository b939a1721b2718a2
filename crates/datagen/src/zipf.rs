//! Zipf-distributed sampling for skewed topic popularity.

use hermes_math::rng::SeededRng;

/// Samples ranks `0..n` with probability `p(r) ∝ 1 / (r + 1)^s`.
///
/// Query topics in Natural Questions are heavily skewed — the paper's
/// Figure 13 shows some clusters accessed more than twice as often as
/// others. `s ≈ 0.8–1.1` reproduces that shape.
///
/// # Examples
///
/// ```
/// use hermes_datagen::ZipfSampler;
/// use hermes_math::rng::seeded_rng;
///
/// let zipf = ZipfSampler::new(10, 1.0);
/// let mut rng = seeded_rng(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 10);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler over `n` ranks with exponent `s` (`s = 0` is
    /// uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is over zero ranks (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= len()`.
    pub fn mass(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u: f64 = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::rng::seeded_rng;

    #[test]
    fn uniform_when_exponent_zero() {
        let z = ZipfSampler::new(4, 0.0);
        for r in 0..4 {
            assert!((z.mass(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_is_monotonically_decreasing() {
        let z = ZipfSampler::new(20, 1.0);
        for r in 1..20 {
            assert!(z.mass(r) <= z.mass(r - 1));
        }
    }

    #[test]
    fn empirical_frequencies_track_mass() {
        let z = ZipfSampler::new(8, 1.0);
        let mut rng = seeded_rng(99);
        let mut counts = [0usize; 8];
        let n = 40_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.mass(r)).abs() < 0.02,
                "rank {r}: {emp} vs {}",
                z.mass(r)
            );
        }
    }

    #[test]
    fn masses_sum_to_one() {
        let z = ZipfSampler::new(13, 0.7);
        let total: f64 = (0..13).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_varies_across_seeds() {
        let z = ZipfSampler::new(16, 1.0);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = seeded_rng(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(draw(5), draw(5), "same seed must replay the same trace");
        assert_ne!(draw(5), draw(6), "distinct seeds should decorrelate");
    }

    #[test]
    fn mass_ratios_follow_the_power_law() {
        // p(r) ∝ 1/(r+1)^s, so mass(0)/mass(1) = 2^s exactly.
        for s in [0.5, 0.8, 1.0, 1.5] {
            let z = ZipfSampler::new(32, s);
            let want = 2f64.powf(s);
            let got = z.mass(0) / z.mass(1);
            assert!((got - want).abs() < 1e-9, "s={s}: {got} vs {want}");
            // Head concentration grows with the exponent.
        }
        let flat = ZipfSampler::new(32, 0.5);
        let steep = ZipfSampler::new(32, 1.5);
        assert!(steep.mass(0) > flat.mass(0));
        assert!(steep.mass(31) < flat.mass(31));
    }
}
