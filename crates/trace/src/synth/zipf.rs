//! Zipf-distributed index sampling.

use rand::Rng;

/// Samples indices `0..n` with probability proportional to
/// `1 / (rank + 1)^theta` (rank 0 is the hottest element).
///
/// Implemented with an exact inverse-CDF table, so sampling is one uniform
/// draw plus a binary search. Suitable for `n` up to a few million.
///
/// Building the table costs one `powf` per element, far more than the
/// samples a short phase draws from it, so build it once per (domain,
/// exponent) and share it: [`AccessDistribution::Zipf`] carries an
/// `Arc<Zipf>`, and a workload that revisits one table across phases
/// hands every phase the same `Arc`.
///
/// [`AccessDistribution::Zipf`]: crate::synth::AccessDistribution::Zipf
///
/// # Examples
///
/// ```
/// use ccsim_trace::synth::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let z = Zipf::new(1000, 0.99);
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` elements with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(16, 0.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 16];
        for _ in 0..16_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "count {c} far from uniform 1000");
        }
    }

    #[test]
    fn high_theta_concentrates_on_head() {
        let z = Zipf::new(1024, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(head > 5_000, "head mass {head} too small for theta=1.2");
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(3, 0.8);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "zipf domain must be non-empty")]
    fn empty_domain_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
