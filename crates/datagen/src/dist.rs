//! Scalar distribution samplers.
//!
//! Implemented from first principles (Box–Muller for the normal) so the
//! workspace does not depend on `rand_distr`; see DESIGN.md §6.

use rand::Rng;

/// A one-dimensional sampler.
pub(crate) trait Sampler {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Normal (Gaussian) via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Normal {
    pub(crate) mean: f64,
    pub(crate) std: f64,
}

impl Normal {
    pub(crate) fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "std must be non-negative");
        Normal { mean, std }
    }

    /// One standard-normal draw.
    pub(crate) fn standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // Box–Muller; u1 is kept away from 0 to avoid ln(0).
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Sampler for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * Normal::standard(rng)
    }
}

/// Log-normal: `exp(N(mu, sigma))`. The natural model for taxi fares —
/// most rides are short, a long tail is expensive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LogNormal {
    /// Mean of the underlying normal.
    pub(crate) mu: f64,
    /// Std of the underlying normal.
    pub(crate) sigma: f64,
}

impl LogNormal {
    /// The log-normal whose *arithmetic* mean is `mean` with log-space
    /// spread `sigma` — convenient for calibrating average fares.
    pub(crate) fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        LogNormal {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }
}

impl Sampler for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stats(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    fn draw<S: Sampler>(s: &S, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| s.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_moments() {
        let n = Normal::new(10.0, 3.0);
        let samples = draw(&n, 50_000, 2);
        let (mean, std) = stats(&samples);
        assert!((mean - 10.0).abs() < 0.1, "normal mean {mean}");
        assert!((std - 3.0).abs() < 0.1, "normal std {std}");
    }

    #[test]
    fn lognormal_mean_calibration() {
        let ln = LogNormal::with_mean(19.0, 0.6);
        // the arithmetic mean exp(mu + sigma²/2) is exactly the requested one
        assert!(((ln.mu + ln.sigma * ln.sigma / 2.0).exp() - 19.0).abs() < 1e-9);
        let samples = draw(&ln, 100_000, 3);
        let (mean, _) = stats(&samples);
        assert!((mean - 19.0).abs() < 0.5, "lognormal mean {mean}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_is_right_skewed() {
        let ln = LogNormal::with_mean(19.0, 0.6);
        let mut samples = draw(&ln, 50_000, 4);
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let (mean, _) = stats(&samples);
        assert!(mean > median, "log-normal mean {mean} ≤ median {median}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ln = LogNormal {
            mu: 2.0,
            sigma: 0.5,
        };
        assert_eq!(draw(&ln, 100, 7), draw(&ln, 100, 7));
    }
}
