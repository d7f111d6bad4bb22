//! Offline stand-in for the `rand_distr` crate.
//!
//! Provides [`Normal`] sampled via the Box–Muller transform (stateless, so
//! each `sample` call draws two uniforms and uses one — simpler than the
//! ziggurat and plenty for workload generation).

#![forbid(unsafe_code)]

pub use rand::distributions::Distribution;
use rand::RngCore;

/// Error returned when constructing a distribution from invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    /// The standard deviation was negative or non-finite.
    BadVariance,
    /// The mean was non-finite.
    MeanTooSmall,
}

/// The normal (Gaussian) distribution `N(mean, std_dev^2)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution; fails on negative or non-finite
    /// standard deviation or non-finite mean.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, NormalError> {
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(NormalError::BadVariance);
        }
        if !mean.is_finite() {
            return Err(NormalError::MeanTooSmall);
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box-Muller: two uniforms in (0, 1] -> one standard normal.
        let u1 = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u1 = (1.0 - u1).max(f64::MIN_POSITIVE); // avoid ln(0)
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(3.0, 0.5).is_ok());
    }

    #[test]
    fn sample_moments_match() {
        let dist = Normal::new(10.0, 2.0).expect("valid params");
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
